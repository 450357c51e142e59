"""Master-equation right-hand sides and time integration.

The reduced state is stored as (rho_gg, rho_ge): trace one and Hermiticity
are structural (rho_ee and rho_eg are derived), so the only monitored
invariant is positivity. Weak-coupling (Redfield-class) generators may
transiently push the purity above one; that is reported, never clamped,
because clamping would hide violations of the weak-coupling assumption.

Four generators are provided: the non-steered nonsecular equation, its
secular truncation (comparison baseline), the full linear-order equation for
steered frames, and the superadiabatic-frame oracle used to cross-check the
full equation to quadratic order in the adiabatic parameter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from .bath import RateSet, SpectralDensity, rates_from_spectra, superadiabatic_elements
from .errors import GAP_FLOOR, GapCollapse, NonFiniteState, StepRejectionLimit
from .frames import to_superadiabatic
from .gauge import apply_phase_frame, phase_factor

TOL_POSITIVITY = 1e-6


@dataclass(frozen=True)
class DensityState:
    """Reduced two-level state; rho_ee = 1 - rho_gg and rho_eg = conj(rho_ge)."""

    rho_gg: float
    rho_ge: complex = 0j

    @property
    def rho_ee(self) -> float:
        return 1.0 - self.rho_gg

    @property
    def rho_eg(self) -> complex:
        return complex(self.rho_ge).conjugate()


def purity(state: DensityState) -> float:
    """Tr rho^2 = rho_gg^2 + rho_ee^2 + 2 |rho_ge|^2."""
    ge = complex(state.rho_ge)
    return (
        state.rho_gg * state.rho_gg
        + (1.0 - state.rho_gg) * (1.0 - state.rho_gg)
        + 2.0 * (ge.real * ge.real + ge.imag * ge.imag)
    )


def rhs_nonsteered(state: DensityState, r: RateSet, omega01: float):
    """Nonsecular generator for a static frame.

    d rho_gg/dt = -(G_ge + G_eg) rho_gg + Re(Gt0 rho_ge) + G_eg
    d rho_ge/dt = i omega01 rho_ge - (Gt+ + Gt-) rho_gg
                  - (G_eg/2 + G_ge/2 + G_phi) rho_ge
                  + (G_alpha + G_beta) rho_eg + Gt+
    """
    rgg = state.rho_gg
    rge = complex(state.rho_ge)
    dgg = (
        -(r.gamma_ge + r.gamma_eg) * rgg
        + (r.gamma_tilde0 * rge).real
        + r.gamma_eg
    )
    dge = (
        1j * omega01 * rge
        - (r.gamma_tilde_plus + r.gamma_tilde_minus) * rgg
        - (r.gamma_eg / 2.0 + r.gamma_ge / 2.0 + r.gamma_phi) * rge
        + (r.gamma_alpha + r.gamma_beta) * rge.conjugate()
        + r.gamma_tilde_plus
    )
    return dgg, dge


def rhs_secular(state: DensityState, r: RateSet, omega01: float):
    """Secular truncation: populations and coherences fully decoupled.

    Keeps only G_ge, G_eg in the population sector and the precession plus
    the decay rate (G_ge + G_eg)/2 + G_phi in the coherence sector; all cross
    rates and every drive contribution are dropped.
    """
    rgg = state.rho_gg
    rge = complex(state.rho_ge)
    dgg = -(r.gamma_ge + r.gamma_eg) * rgg + r.gamma_eg
    dge = (1j * omega01 - (r.gamma_ge / 2.0 + r.gamma_eg / 2.0 + r.gamma_phi)) * rge
    return dgg, dge


def _spectra(frame, sd: SpectralDensity, spectral_shift: bool):
    if spectral_shift:
        shifted = frame.omega01 + (frame.w_ee - frame.w_gg)
        return sd(shifted), sd(-shifted), sd(0.0)
    return sd(frame.omega01), sd(-frame.omega01), sd(0.0)


def rhs_full(state: DensityState, frame, sd: SpectralDensity, spectral_shift: bool = False):
    """Complete linear-order generator for a steered frame, term for term.

    At w = 0 this reduces exactly to :func:`rhs_nonsteered` with the frame's
    rates. With ``spectral_shift`` the spectrum is sampled at the
    gauge-corrected gap (caller owns the gauge choice; inert for flat
    spectra and under the optimal phase schedule).
    """
    w01 = frame.omega01
    if w01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    s_plus, s_minus, s_zero = _spectra(frame, sd, spectral_shift)
    m1 = frame.m1
    m2 = complex(frame.m2)
    wge = complex(frame.w_ge)
    rgg = state.rho_gg
    rge = complex(state.rho_ge)

    k1 = (2.0 * s_zero - s_minus - s_plus) / w01
    k2 = (s_zero - s_plus) / w01
    k3 = (s_minus - s_plus) / w01
    mod2 = m2.real * m2.real + m2.imag * m2.imag
    re_m2_w = m2.imag * wge.imag + m2.real * wge.real   # Re(conj(m2) w_ge)
    re_m2_r = m2.imag * rge.imag + m2.real * rge.real   # Re(conj(m2) rho_ge)

    dgg = (
        -2.0 * (wge.conjugate() * rge).imag
        + s_plus * mod2
        - (s_minus + s_plus) * mod2 * rgg
        + 2.0 * re_m2_r * s_zero * m1
        - 2.0 * k1 * re_m2_w * re_m2_r
        + 2.0 * k1 * re_m2_w * m1 * rgg
        - 2.0 * k2 * m1 * re_m2_w
    )
    dge = (
        1j * wge * (2.0 * rgg - 1.0)
        + 1j * (frame.w_ee - frame.w_gg) * rge
        + 1j * w01 * rge
        - s_plus * m1 * m2
        + (s_minus + s_plus) * m1 * m2 * rgg
        - 2.0 * s_zero * m1 * m1 * rge
        - 1j * (s_minus + s_plus) * m2 * (rge.imag * m2.real - m2.imag * rge.real)
        - 2.0 * k1 * m1 * m1 * wge * rgg
        + 2.0 * k2 * m1 * m1 * wge
        - 1j * m2 * k3 * (m2.imag * wge.real - wge.imag * m2.real)
        - 2.0 * k1 * m1 * (
            1j * m2 * (wge.imag * rge.real - rge.imag * wge.real)
            - re_m2_w * rge
        )
    )
    return dgg, dge


def rhs_superadiabatic_oracle(state2: DensityState, frame, sd: SpectralDensity):
    """Non-steered-form generator evaluated with superadiabatic quantities.

    ``state2`` lives in the superadiabatic frame. The coherence precesses at
    the corrected gap, while the spectrum stays sampled at +-omega01: the
    slow-bath (adiabatic-rates) assumption that also underlies the full
    equation, where no spectrum derivatives appear.
    """
    w01 = frame.omega01
    if w01 <= GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    m1_2, m2_2 = superadiabatic_elements(frame.m1, frame.m2, frame.w_ge, w01)
    r2 = rates_from_spectra(m1_2, m2_2, sd(w01), sd(-w01), sd(0.0))
    omega01_2 = w01 + (frame.w_ee - frame.w_gg)
    return rhs_nonsteered(state2, r2, omega01_2)


def superadiabatic_oracle_pullback(state: DensityState, frame, sd: SpectralDensity):
    """Adiabatic-frame derivative predicted by the superadiabatic oracle.

    Maps the state to the superadiabatic frame, evaluates the oracle there,
    and pulls the derivative back with the linear part of the frame map
    (frame quantities frozen, consistent with the adiabatic-rates
    assumption). Independent route to :func:`rhs_full`; the two agree to
    O(alpha^2).
    """
    rho_gg2, rho_ge2 = to_superadiabatic(state.rho_gg, state.rho_ge, frame)
    dgg2, dge2 = rhs_superadiabatic_oracle(DensityState(rho_gg2, rho_ge2), frame, sd)
    x = frame.w_ge / frame.omega01
    dgg = dgg2 + 2.0 * (x.conjugate() * dge2).real
    dge = dge2 - 2.0 * x * dgg2
    return dgg, dge


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Integration window and stepper selection.

    method "rk4_fixed" uses step ``dt``; "rk45_adaptive" is an embedded
    Dormand-Prince 5(4) pair controlled by ``rtol``/``atol`` with steps
    capped at ``dt_max``. ``record_stride`` keeps every Nth accepted step
    (the final point is always kept).
    """

    method: str
    t0: float
    t1: float
    dt: Optional[float] = None
    rtol: float = 1e-9
    atol: float = 1e-12
    dt_max: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "rk45_adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if self.method == "rk4_fixed":
            if not (self.dt and self.dt > 0):
                raise ValueError("rk4_fixed requires dt > 0")
        else:
            if not (self.rtol > 0 and self.atol > 0):
                raise ValueError("rk45_adaptive requires rtol, atol > 0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: DensityState
    frame: object
    lambda_g: float
    lambda_e: float
    purity: float


@dataclass
class Trajectory:
    """Recorded samples plus run-level invariant diagnostics."""

    samples: list = field(default_factory=list)
    max_positivity_violation: float = 0.0
    max_alpha: float = 0.0

    def times(self):
        return [s.t for s in self.samples]

    def rho_gg(self):
        return [s.state.rho_gg for s in self.samples]

    def rho_ge(self):
        return [s.state.rho_ge for s in self.samples]

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]

    def write_csv(self, fh) -> None:
        """CSV with one header row; floats carry 17 significant digits."""
        fh.write("t,rho_gg,re_rho_ge,im_rho_ge,purity,alpha,omega01,lambda_g,lambda_e\n")
        for s in self.samples:
            ge = complex(s.state.rho_ge)
            alpha = s.frame.alpha if s.frame is not None else math.nan
            omega01 = s.frame.omega01 if s.frame is not None else math.nan
            fields = (
                s.t, s.state.rho_gg, ge.real, ge.imag, s.purity, alpha, omega01,
                s.lambda_g, s.lambda_e,
            )
            fh.write(",".join(f"{v:.17g}" for v in fields) + "\n")


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_E = (  # b5 - b4
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)
_RK4_B = (1 / 6, 1 / 3, 1 / 3, 1 / 6)
_MAX_REJECTIONS = 60


def _axpy(y, ks, coeffs, dt):
    g, x, i = y
    for k, c in zip(ks, coeffs):
        if c == 0.0:
            continue
        cdt = c * dt
        g += cdt * k[0]
        x += cdt * k[1]
        i += cdt * k[2]
    return g, x, i


def _advance_phases(lam, frames, weights, dt):
    """One step of d lambda_g/dt = -w_gg, d lambda_e/dt = -w_ee by the step's own quadrature."""
    sum_g = sum_e = 0.0
    for fr, b in zip(frames, weights):
        if b != 0.0:
            sum_g += b * fr.w_gg
            sum_e += b * fr.w_ee
    return lam[0] - dt * sum_g, lam[1] - dt * sum_e


def integrate(
    rhs: Callable,
    initial: DensityState,
    cfg: SolverConfig,
    frame_provider: Optional[Callable] = None,
    track_phases: bool = False,
) -> Trajectory:
    """Integrate d(state)/dt = rhs(t, state, frame) over [cfg.t0, cfg.t1].

    ``rhs`` returns (d rho_gg/dt, d rho_ge/dt); ``frame_provider`` maps a
    time to the frame passed through to ``rhs`` (None for frame-free
    generators). Frames are evaluated at every stage time. Purity is
    monitored against 1 + 1e-6 and the worst excess reported on the
    trajectory (with a warning), never corrected.

    With ``track_phases`` the samples are reported in the optimally phase
    shifted basis. The stepper accumulates lambda_g, lambda_e (from 0 at t0,
    d lambda/dt = -w_diag) with each accepted step's own quadrature weights
    on the stage frames it already evaluated; the phases stay out of the
    error norm, so steps and rho_gg equal the plain run's exactly. At each
    record point rho_ge is rotated by e^{i(lambda_e - lambda_g)} and the
    frame re-expressed in that basis, where its w diagonals vanish. This is
    the optimal-phase run only for generators covariant under the basis
    phase (``rhs_full`` without ``spectral_shift``).
    """
    if track_phases and frame_provider is None:
        raise ValueError("track_phases requires a frame_provider")

    def f(t, y):
        frame = frame_provider(t) if frame_provider is not None else None
        dgg, dge = rhs(t, DensityState(y[0], complex(y[1], y[2])), frame)
        dge = complex(dge)
        return (dgg, dge.real, dge.imag), frame

    traj = Trajectory()

    def record(t, y, frame, lam):
        st = DensityState(y[0], complex(y[1], y[2]))
        p = purity(st)
        if p - 1.0 > traj.max_positivity_violation:
            traj.max_positivity_violation = p - 1.0
        if track_phases:
            st = DensityState(st.rho_gg, st.rho_ge * phase_factor(*lam))
            frame = apply_phase_frame(frame, lam[0], lam[1], -frame.w_gg, -frame.w_ee)
        if frame is not None and frame.alpha > traj.max_alpha:
            traj.max_alpha = frame.alpha
        traj.samples.append(TrajectorySample(t, st, frame, lam[0], lam[1], p))

    def check_finite(t, y):
        if not (math.isfinite(y[0]) and math.isfinite(y[1]) and math.isfinite(y[2])):
            raise NonFiniteState(f"non-finite state at t = {t:g}")

    y = (initial.rho_gg, complex(initial.rho_ge).real, complex(initial.rho_ge).imag)
    t = cfg.t0
    lam = (0.0, 0.0)
    frame0 = frame_provider(t) if frame_provider is not None else None
    record(t, y, frame0, lam)

    if cfg.method == "rk4_fixed":
        n_steps = max(1, round((cfg.t1 - cfg.t0) / cfg.dt))
        dt = (cfg.t1 - cfg.t0) / n_steps
        for i in range(n_steps):
            t = cfg.t0 + i * dt
            k1, f1 = f(t, y)
            k2, f2 = f(t + dt / 2, _axpy(y, (k1,), (0.5,), dt))
            k3, f3 = f(t + dt / 2, _axpy(y, (k2,), (0.5,), dt))
            k4, f4 = f(t + dt, _axpy(y, (k3,), (1.0,), dt))
            y = _axpy(y, (k1, k2, k3, k4), _RK4_B, dt)
            if track_phases:
                lam = _advance_phases(lam, (f1, f2, f3, f4), _RK4_B, dt)
            t = cfg.t0 + (i + 1) * dt
            check_finite(t, y)
            if (i + 1) % cfg.record_stride == 0 or i + 1 == n_steps:
                record(t, y, frame_provider(t) if frame_provider is not None else None, lam)
    else:
        dt_max = cfg.dt_max if cfg.dt_max is not None else (cfg.t1 - cfg.t0) / 10
        dt = min(dt_max, (cfg.t1 - cfg.t0) / 100)
        rejections = 0
        accepted = 0
        ks = [None] * 7
        frames = [None] * 7
        while t < cfg.t1 - 1e-14 * (cfg.t1 - cfg.t0):
            dt = min(dt, cfg.t1 - t)
            for s in range(7):
                ys = _axpy(y, ks[:s], _DP_A[s], dt) if s else y
                ks[s], frames[s] = f(t + _DP_C[s] * dt, ys)
            y_new = _axpy(y, ks, _DP_B5, dt)
            err = _axpy((0.0, 0.0, 0.0), ks, _DP_E, dt)
            norm = 0.0
            for j in range(3):
                sc = cfg.atol + cfg.rtol * max(abs(y[j]), abs(y_new[j]))
                norm += (err[j] / sc) ** 2
            norm = math.sqrt(norm / 3)
            if norm <= 1.0:
                if track_phases:
                    lam = _advance_phases(lam, frames, _DP_B5, dt)
                t += dt
                y = y_new
                check_finite(t, y)
                accepted += 1
                rejections = 0
                if accepted % cfg.record_stride == 0 or t >= cfg.t1 - 1e-14 * (cfg.t1 - cfg.t0):
                    record(t, y, frame_provider(t) if frame_provider is not None else None, lam)
            else:
                rejections += 1
                if rejections > _MAX_REJECTIONS:
                    raise StepRejectionLimit(
                        f"{rejections} consecutive rejections at t = {t:g}"
                    )
            factor = 0.9 * norm ** -0.2 if norm > 0 else 5.0
            dt = min(dt * min(5.0, max(0.2, factor)), dt_max)

    if traj.max_positivity_violation > TOL_POSITIVITY:
        warnings.warn(
            f"purity exceeded 1 by {traj.max_positivity_violation:.3e} "
            "(weak-coupling assumption may be strained)",
            RuntimeWarning,
            stacklevel=2,
        )
    return traj
