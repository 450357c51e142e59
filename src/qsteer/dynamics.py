"""Master-equation right-hand sides and time integration.

The reduced state is stored as (rho_gg, rho_ge): trace one and Hermiticity
are structural (rho_ee and rho_eg are derived), so the only monitored
invariant is positivity. Weak-coupling (Redfield-class) generators may
transiently push the purity above one; that is reported, never clamped,
because clamping would hide violations of the weak-coupling assumption.

Four generators are provided: the non-steered nonsecular equation, its
secular truncation (comparison baseline), the full linear-order equation for
steered frames, and the superadiabatic-frame oracle used to cross-check the
full equation to quadratic order in the adiabatic parameter. The first
superadiabatic basis lives here alone: its coupling elements
(:func:`superadiabatic_elements`), its state map (:func:`to_superadiabatic`),
the oracle and its pullback.

Berry phases are optimal-phase increments over a closed loop:
:func:`berry_phase` integrates the zero generator with ``track_phases`` and
reads them off the stepper's own phase quadrature.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .bath import RateSet, SpectralDensity, rates
from .control import frame_at
from .errors import GAP_FLOOR, GapCollapse, LoopNotClosed, NonFiniteState, StepRejectionLimit
from .gauge import hs_norm, phase_factor

TOL_POSITIVITY = 1e-6


class DensityState(NamedTuple):
    """Reduced two-level state; rho_ee = 1 - rho_gg and rho_eg = conj(rho_ge)."""

    rho_gg: float
    rho_ge: complex = 0j

    @property
    def rho_ee(self) -> float:
        return 1.0 - self.rho_gg

    @property
    def rho_eg(self) -> complex:
        return complex(self.rho_ge).conjugate()


def rhs_nonsteered(state: DensityState, r: RateSet, omega01: float):
    """Nonsecular generator for a static frame.

    d rho_gg/dt = -(G_ge + G_eg) rho_gg + Re(Gt0 rho_ge) + G_eg
    d rho_ge/dt = i omega01 rho_ge - (Gt+ + Gt-) rho_gg
                  - (G_eg/2 + G_ge/2 + G_phi) rho_ge
                  + (G_alpha + G_beta) rho_eg + Gt+
    """
    rgg, rge = state
    g_ge, g_eg, g_t0, g_tp, g_tm, g_phi, g_alpha, g_beta = r
    dgg = (
        -(g_ge + g_eg) * rgg
        + (g_t0 * rge).real
        + g_eg
    )
    dge = (
        1j * omega01 * rge
        - (g_tp + g_tm) * rgg
        - (g_eg / 2.0 + g_ge / 2.0 + g_phi) * rge
        + (g_alpha + g_beta) * rge.conjugate()
        + g_tp
    )
    return dgg, dge


def rhs_secular(state: DensityState, r: RateSet, omega01: float):
    """Secular truncation: populations and coherences fully decoupled.

    Keeps only G_ge, G_eg in the population sector and the precession plus
    the decay rate (G_ge + G_eg)/2 + G_phi in the coherence sector; all cross
    rates and every drive contribution are dropped.
    """
    rgg, rge = state
    g_ge, g_eg, g_phi = r.gamma_ge, r.gamma_eg, r.gamma_phi
    dgg = -(g_ge + g_eg) * rgg + g_eg
    dge = (1j * omega01 - (g_ge / 2.0 + g_eg / 2.0 + g_phi)) * rge
    return dgg, dge


def rhs_full(state: DensityState, frame, sd: SpectralDensity):
    """Complete linear-order generator for a steered frame.

    At w = 0 this reduces exactly to :func:`rhs_nonsteered` with the frame's
    rates. The spectrum is sampled at the adiabatic gap. The paper's complex
    terms are regrouped in real arithmetic, d rho_ge/dt = p m2 - q i m2
    - (c_w - i e_w) w_ge - (c_r - i e_r) rho_ge with six real weights, and
    its real and imaginary parts are summed as floats into one complex: the
    result agrees with the written-out terms to a few ulps of the largest
    term, not bit for bit. No input is negated, and a cross product of two
    inputs' parts is scaled by a float first, so an int or float rho_ge, m2
    or w_ge gives the floats of its complex equivalent.
    """
    w01, w_gg, w_ee, wge, m1, m2 = frame
    if not w01 > GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    s_plus, s_minus, s_zero = sd.at_gap(w01)
    rgg, rge = state
    m2r, m2i = m2.real, m2.imag
    wr, wi = wge.real, wge.imag
    rr, ri = rge.real, rge.imag

    s_sum = s_minus + s_plus
    k1 = (2.0 * s_zero - s_sum) / w01
    k1x2 = 2.0 * k1
    k2x2 = 2.0 * ((s_zero - s_plus) / w01)
    k3 = (s_minus - s_plus) / w01
    # Re(conj(m2) w_ge) and Re(conj(m2) rho_ge), led by the product of imaginary parts:
    # +0.0 for real inputs, so the sum's zero has one sign for an int and a complex input
    re_m2_w = m2i * wi + m2r * wr
    re_m2_r = m2i * ri + m2r * rr
    # s_sum Im(conj(m2) rho_ge), k3 Im(conj(w_ge) m2) and 2 Im(conj(rho_ge) w_ge)
    x = s_sum * ri * m2r - s_sum * m2i * rr
    y = k3 * m2i * wr - k3 * wi * m2r
    z = 2.0 * wi * rr - 2.0 * ri * wr
    u = s_sum * rgg - s_plus
    v = 2.0 * s_zero * m1 - k1x2 * re_m2_w
    k_w = (k1x2 * rgg - k2x2) * m1

    dgg = v * re_m2_r + k_w * re_m2_w - u * (m2r * m2r + m2i * m2i) + z
    # d rho_ge/dt = p m2 - q i m2 - (c_w - i e_w) w_ge - (c_r - i e_r) rho_ge
    p = u * m1
    q = x + y + k1 * m1 * z
    c_w = k_w * m1
    e_w = 2.0 * rgg - 1.0
    c_r = v * m1
    e_r = w01 + (w_ee - w_gg)
    dge_r = p * m2r + q * m2i - c_w * wr - e_w * wi - c_r * rr - e_r * ri
    dge_i = p * m2i - q * m2r - c_w * wi + e_w * wr - c_r * ri + e_r * rr
    return dgg, complex(dge_r, dge_i)


def superadiabatic_elements(m1: float, m2: complex, w_ge: complex, omega01: float):
    """Coupling elements in the first superadiabatic basis, to linear order in alpha.

    Sandwiching the coupling operator between the corrected states
    |g2> = |g> - |e> w_ge*/omega01 and |e2> = |e> + |g> w_ge/omega01 and
    discarding quadratic terms gives

        m1_2 = m1 - 2 Re(m2 conj(w_ge)) / omega01
        m2_2 = m2 + 2 m1 w_ge / omega01

    already traceless at this order. Identity at w_ge = 0 and exactly linear
    in w_ge.
    """
    if not omega01 > GAP_FLOOR:
        raise GapCollapse(f"omega01 = {omega01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    m2 = complex(m2)
    w_ge = complex(w_ge)
    m1_2 = m1 - 2.0 * (m2.real * w_ge.real + m2.imag * w_ge.imag) / omega01
    m2_2 = m2 + 2.0 * m1 * w_ge / omega01
    return m1_2, m2_2


def rhs_superadiabatic_oracle(state2: DensityState, frame, sd: SpectralDensity):
    """Non-steered-form generator evaluated with superadiabatic quantities.

    ``state2`` lives in the superadiabatic frame. The coherence precesses at
    the corrected gap, while the spectrum stays sampled at +-omega01: the
    slow-bath (adiabatic-rates) assumption that also underlies the full
    equation, where no spectrum derivatives appear.
    """
    w01 = frame.omega01
    m1_2, m2_2 = superadiabatic_elements(frame.m1, frame.m2, frame.w_ge, w01)
    r2 = rates(m1_2, m2_2, w01, sd)
    omega01_2 = w01 + (frame.w_ee - frame.w_gg)
    return rhs_nonsteered(state2, r2, omega01_2)


def to_superadiabatic(rho_gg: float, rho_ge: complex, frame):
    """Density components in the superadiabatic frame, to linear order.

    The first superadiabatic basis corrects the adiabatic states by the
    steering admixture x = w_ge / omega01, unnormalized (normalization enters
    only at quadratic order):
    rho_gg2 = rho_gg - 2 Re(conj(x) rho_ge),
    rho_ge2 = rho_ge + x (2 rho_gg - 1).
    """
    w01 = frame.omega01
    if not w01 > GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    x = frame.w_ge / w01
    rho_ge = complex(rho_ge)
    rho_gg2 = rho_gg - 2.0 * (x.conjugate() * rho_ge).real
    rho_ge2 = rho_ge + x * (2.0 * rho_gg - 1.0)
    return rho_gg2, rho_ge2


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
    (the final point is always kept). ValueError where rk4_fixed's step count
    round((t1 - t0) / dt), or (t1 - t0) / dt_max, a lower bound on an
    adaptive count, exceeds ``_MAX_STEPS``.
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
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("t0", "t1", "dt", "rtol", "atol", "dt_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")
        if not math.isfinite(self.t1 - self.t0):
            raise ValueError("t1 - t0 must be finite")
        fixed = _METHODS[self.method][1] is None
        if fixed:
            if not (self.dt and self.dt > 0):
                raise ValueError(f"{self.method} requires dt > 0")
        elif not (self.rtol > 0 and self.atol > 0):
            raise ValueError(f"{self.method} requires rtol, atol > 0")
        if self.dt_max is not None and not self.dt_max > 0:
            raise ValueError("dt_max must be > 0")
        name, step = ("dt", self.dt) if fixed else ("dt_max", self.dt_max)
        steps = (self.t1 - self.t0) / (step or math.inf)  # 0 without a step cap
        # round(steps) steps for a fixed step, at least steps for an adaptive one; no round(inf)
        if (round(min(steps, 2.0 * _MAX_STEPS)) if fixed else steps) > _MAX_STEPS:
            raise ValueError(f"{name} = {step:g} needs {steps:.3g} steps, more than {_MAX_STEPS}")
        stride = self.record_stride
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ValueError("record_stride must be an integer >= 1")


@dataclass(frozen=True)
class TrajectorySample:
    """One recorded point, as written to CSV; alpha and omega01 are NaN without frames."""

    t: float
    state: DensityState
    alpha: float
    omega01: float
    lambda_g: float
    lambda_e: float
    purity: float


@dataclass(frozen=True)
class SolverWork:
    """What one integration did: steps, evaluations and accepted step sizes.

    ``rhs_evals`` counts the generator's calls and ``frame_evals`` the frame
    provider's, one per distinct stage time (0 without a provider): 1 at t0
    plus, per attempted step, 6 and 5 for "rk45_adaptive" and 4 and 2 for
    "rk4_fixed". ``dt_max`` and ``dt_min`` range over the accepted steps (an
    adaptive run cuts the last one to end at t1).
    ``t_max_positivity_violation`` is the time of the accepted step (or t0)
    with the worst purity excess, None when purity never exceeded 1.
    """

    accepted_steps: int
    rejected_steps: int
    rhs_evals: int
    frame_evals: int
    dt_min: float
    dt_max: float
    t_max_positivity_violation: Optional[float]


@dataclass
class Trajectory:
    """Recorded samples plus run-level invariant diagnostics and solver work.

    The maxima range over t0 and every accepted step, not only the recorded ones.
    ``phase_quadrature_error`` estimates the error of the accumulated optimal
    phase (see :func:`integrate`); None where no phase or no error row exists.
    """

    samples: list = field(default_factory=list)
    max_positivity_violation: float = 0.0
    max_excited_population: float = -math.inf
    max_alpha: float = 0.0
    work: Optional[SolverWork] = None
    phase_quadrature_error: Optional[float] = None

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]

    def write_csv(self, fh) -> None:
        """CSV with one header row; floats carry 17 significant digits."""
        fh.write("t,rho_gg,re_rho_ge,im_rho_ge,purity,alpha,omega01,lambda_g,lambda_e\n")
        row = ",".join(["%.17g"] * 9) + "\n"
        for s in self.samples:
            ge = complex(s.state.rho_ge)
            fh.write(row % (s.t, s.state.rho_gg, ge.real, ge.imag, s.purity, s.alpha, s.omega01,
                            s.lambda_g, s.lambda_e))


def _terms(row):
    """The nonzero (stage, coefficient) pairs of one tableau row, in stage order."""
    return tuple((s, c) for s, c in enumerate(row) if c != 0.0)


def _stages(c, a):
    """(stage, node, A row, same t) for each stage after the first, from one tableau.

    Both tableaus are first same as last: the last row of A is the b row, at
    c = 1, so the last stage is evaluated at the step's solution and becomes
    the next step's first. A stage whose node equals the previous stage's is
    evaluated at the same t and reuses its frame: DP5's last two stages and
    RK4's last two (c = 1), and RK4's middle two (c = 1/2).
    """
    return tuple((s, c[s], _terms(a[s]), c[s] == c[s - 1]) for s in range(1, len(c)))


# method -> (stages, error row b - b_hat or None for a fixed step)
_METHODS = {
    "rk4_fixed": (_stages(
        (0.0, 0.5, 0.5, 1.0, 1.0),
        ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
    ), None),
    # Dormand-Prince 5(4)
    "rk45_adaptive": (_stages(
        (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0),
        (
            (),
            (1 / 5,),
            (3 / 40, 9 / 40),
            (44 / 45, -56 / 15, 32 / 9),
            (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
            (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
            (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
        ),
    ), _terms((  # b5 - b4
        35 / 384 - 5179 / 57600,
        0.0,
        500 / 1113 - 7571 / 16695,
        125 / 192 - 393 / 640,
        -2187 / 6784 + 92097 / 339200,
        11 / 84 - 187 / 2100,
        -1 / 40,
    ))),
}
_MAX_REJECTIONS = 60
_MAX_STEPS = 10**7  # the most steps a SolverConfig window may take


def _advance_phases(lam, frames, terms, dt):
    """One step of d lambda_g/dt = -w_gg, d lambda_e/dt = -w_ee by the step's own quadrature.

    With the error row as ``terms`` it advances the difference between the
    5th- and 4th-order phases instead.
    """
    sum_g = sum_e = 0.0
    for s, b in terms:
        sum_g += b * frames[s].w_gg
        sum_e += b * frames[s].w_ee
    return lam[0] - dt * sum_g, lam[1] - dt * sum_e


def _error_norm(g, ge, g_new, ge_new, err_g, err_ge, atol, rtol):
    """RMS of the scaled errors of rho_gg, Re rho_ge and Im rho_ge, in that order.

    A scaled error whose square overflows, as at tolerances near 1e-300, gives
    an infinite norm: a rejection.
    """
    try:
        return math.sqrt((
            (err_g / (atol + rtol * max(abs(g), abs(g_new)))) ** 2
            + (err_ge.real / (atol + rtol * max(abs(ge.real), abs(ge_new.real)))) ** 2
            + (err_ge.imag / (atol + rtol * max(abs(ge.imag), abs(ge_new.imag)))) ** 2
        ) / 3)
    except OverflowError:
        return math.inf


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
    generators). The stepper carries the state as that same pair, a float
    and a complex, and keeps each stage's returned pair as its slope. Both
    methods are first same as last: a step's last stage is evaluated at its
    solution and is the next step's first, and its frame is also the one
    recorded there. The provider is called once per distinct stage time: a
    stage whose tableau node equals the previous stage's reuses that stage's
    frame, and every ``rhs`` call gets its stage's frame. "rk45_adaptive"
    evaluates six stages per attempted step, and its last two share t + dt,
    so an attempt makes 6 RHS calls and 5 frame evaluations (6 * attempts + 1
    and 5 * attempts + 1 in all); its error norm is the RMS of the scaled
    errors of rho_gg, Re rho_ge and Im rho_ge, in that order. "rk4_fixed"
    takes max(1, round((t1 - t0) / dt)) equal steps, step i ending at
    t0 + i * step; its middle two stages share t + step/2 and its last two
    t + step, so it makes 4 * steps + 1 RHS calls and 2 * steps + 1 frame
    evaluations.
    Purity is checked at t0 and at every accepted step, independent of
    ``record_stride``, against 1 + 1e-6; the worst excess is reported on the
    trajectory (with a warning), never corrected. The trajectory's
    ``max_excited_population`` and ``max_alpha`` range over the same points,
    alpha in the reported basis, computed once per point and kept by its
    sample; an infinite alpha raises NonFiniteState naming t.
    ``Trajectory.work`` reports the steps, evaluations and step sizes used.
    A NaN "rk45_adaptive" error estimate raises NonFiniteState (an infinite
    one is a rejection), and a step too small to advance t raises
    StepRejectionLimit.

    With ``track_phases`` the samples are reported in the optimally phase
    shifted basis. The stepper accumulates lambda_g, lambda_e (from 0 at t0,
    d lambda/dt = -w_diag) with each accepted step's own quadrature weights
    on the stage frames it already evaluated; the phases stay out of the
    error norm, so steps and rho_gg equal the plain run's exactly. At each
    record point rho_ge is rotated by e^{i(lambda_e - lambda_g)}; in that basis
    the w diagonals vanish, so alpha is hs_norm(0, 0, w_ge) / omega01. This is
    the optimal-phase run only for generators covariant under the basis phase,
    as ``rhs_full`` is. A phase that is not finite at a record point raises
    NonFiniteState naming t. "rk45_adaptive" also accumulates the phases with
    its embedded 4th-order weights (the error row on the same stage frames);
    ``phase_quadrature_error`` is the larger branch's |5th - 4th-order phase|
    at t1 ("rk4_fixed" has no error row and reports None).
    """
    if track_phases and frame_provider is None:
        raise ValueError("track_phases requires a frame_provider")
    # Each stage is evaluated inline: its state, its frame (the provider's, or the
    # previous stage's at the same t) and the generator, whose (d rho_gg, d rho_ge)
    # is the slope. A stage state is built by tuple.__new__, which skips the
    # NamedTuple's Python-level __new__ and still gives a DensityState.
    provider = frame_provider if frame_provider is not None else lambda t: None
    new = tuple.__new__
    stages, err_terms = _METHODS[cfg.method]
    last = len(stages)
    b_terms = stages[-1][2]  # the last stage is evaluated at the step's solution
    atol, rtol = cfg.atol, cfg.rtol
    traj = Trajectory()
    t_worst = None
    max_violation, max_excited, max_alpha = 0.0, -math.inf, 0.0
    track_error = track_phases and err_terms is not None

    def accept(t, g, ge, frame, lam, keep):
        """Check one accepted state, fold it into the run's maxima and, if ``keep``, record it."""
        nonlocal t_worst, max_violation, max_excited, max_alpha
        if not (math.isfinite(g) and math.isfinite(ge.real) and math.isfinite(ge.imag)):
            raise NonFiniteState(f"non-finite state at t = {t:g}")
        # Tr rho^2 = rho_gg^2 + rho_ee^2 + 2 |rho_ge|^2
        p = g * g + (1.0 - g) * (1.0 - g) + 2.0 * (ge.real * ge.real + ge.imag * ge.imag)
        if p - 1.0 > max_violation:
            max_violation = p - 1.0
            t_worst = t
        if 1.0 - g > max_excited:
            max_excited = 1.0 - g
        alpha = omega01 = math.nan
        if frame is not None:
            omega01 = frame.omega01  # the optimal phase zeroes w's diagonals, keeps |w_ge|
            alpha = hs_norm(0.0, 0.0, frame.w_ge) / omega01 if track_phases else frame.alpha
            if not alpha < math.inf:
                raise NonFiniteState(f"the local adiabatic parameter alpha overflows at t = {t:g}")
            if alpha > max_alpha:
                max_alpha = alpha
        if keep:
            if track_phases:
                if not math.isfinite(lam[1] - lam[0]):  # finite only if both phases are
                    raise NonFiniteState(f"the optimal phase overflows the float range at t = {t:g}")
                ge = ge * phase_factor(*lam)
            traj.samples.append(TrajectorySample(
                t, new(DensityState, (g, ge)), alpha, omega01, lam[0], lam[1], p))

    g, ge = initial.rho_gg, complex(initial.rho_ge)
    t = cfg.t0
    lam = lam_err = (0.0, 0.0)
    ks = [None] * (last + 1)
    frames = [None] * (last + 1)
    frames[0] = provider(t)
    ks[0] = rhs(t, new(DensityState, (g, ge)), frames[0])
    n_rhs = n_frames = 1
    accept(t, g, ge, frames[0], lam, True)

    span = cfg.t1 - cfg.t0
    if err_terms is None:
        # step i ends at t0 + i * dt, so the times carry no accumulated rounding
        n_steps, t_end = max(1, round(span / cfg.dt)), math.inf
        dt = span / n_steps
    else:
        n_steps, t_end = None, cfg.t1 - 1e-14 * span
        dt_max = cfg.dt_max if cfg.dt_max is not None else span / 10
        dt, grow = min(dt_max, span / 100), 1.0
    dt_lo, dt_hi = math.inf, 0.0
    accepted = rejected = rejections = 0
    done = False
    while not done:
        if err_terms is not None:
            dt = min(dt * grow, dt_max, cfg.t1 - t)
            if t + dt == t:
                raise StepRejectionLimit(f"step {dt:g} does not advance t = {t:g}")
        for s, c, terms, same_t in stages:
            ts = t + c * dt
            # (g, ge) + dt * sum of a * ks[j] over the row's (stage, coefficient) pairs, in order
            g_new, ge_new = g, ge
            for j, a in terms:
                adt = a * dt
                kg, kge = ks[j]
                g_new += adt * kg
                ge_new += adt * kge
            if same_t:
                frame = frames[s - 1]
            else:
                frame = provider(ts)
                n_frames += 1
            ks[s] = rhs(ts, new(DensityState, (g_new, ge_new)), frame)
            frames[s] = frame
        n_rhs += last
        # the last stage state is the step's solution, so (g_new, ge_new) is its result
        if err_terms is None:
            norm = 0.0
        else:
            err_g, err_ge = 0.0, 0j  # dt * sum of e * ks[j] over the error row, in order
            for j, e in err_terms:
                edt = e * dt
                kg, kge = ks[j]
                err_g += edt * kg
                err_ge += edt * kge
            norm = _error_norm(g, ge, g_new, ge_new, err_g, err_ge, atol, rtol)
            factor = 0.9 * norm ** -0.2 if norm > 0 else 5.0
            grow = min(5.0, max(0.2, factor))
        if norm <= 1.0:
            if track_phases:
                lam = _advance_phases(lam, frames, b_terms, dt)
                if track_error:
                    lam_err = _advance_phases(lam_err, frames, err_terms, dt)
            accepted += 1
            t = t + dt if n_steps is None else cfg.t0 + accepted * dt
            done = t >= t_end or accepted == n_steps
            g, ge = g_new, ge_new
            rejections = 0
            dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)
            ks[0], frames[0] = ks[last], frames[last]
            accept(t, g, ge, frames[0], lam, accepted % cfg.record_stride == 0 or done)
        elif math.isnan(norm):
            raise NonFiniteState(f"non-finite error estimate at t = {t:g}")
        else:
            rejected += 1
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                raise StepRejectionLimit(
                    f"{rejections} consecutive rejections at t = {t:g}"
                )

    traj.max_positivity_violation = max_violation
    traj.max_excited_population = max_excited
    traj.max_alpha = max_alpha
    if track_error:
        traj.phase_quadrature_error = max(abs(lam_err[0]), abs(lam_err[1]))
        if not traj.phase_quadrature_error < math.inf:
            raise NonFiniteState("the optimal phase's error estimate overflows the float range")
    traj.work = SolverWork(
        accepted_steps=accepted,
        rejected_steps=rejected,
        rhs_evals=n_rhs,
        frame_evals=n_frames if frame_provider is not None else 0,
        dt_min=dt_lo,
        dt_max=dt_hi,
        t_max_positivity_violation=t_worst,
    )
    if traj.max_positivity_violation > TOL_POSITIVITY:
        warnings.warn(
            f"purity exceeded 1 by {traj.max_positivity_violation:.3e} "
            "(weak-coupling assumption may be strained)",
            RuntimeWarning,
            stacklevel=2,
        )
    return traj


# ----------------------------------------------------------------------
# Berry phases
# ----------------------------------------------------------------------

# Largest |b(t_b) - b(t_a)| that berry_phase accepts as a closed loop, per unit
# of max(1, |b(t_a)|): the rounding of a closed loop's end grows with its field.
_LOOP_TOL = 1e-10


@dataclass(frozen=True)
class BerryPhases:
    """Accumulated optimal-phase increments over one closed loop, raw and mod 2 pi.

    ``quadrature_error`` is the loop integration's ``phase_quadrature_error``
    (None for "rk4_fixed"); ``loop_gap`` is |b(t_b) - b(t_a)| over the loop
    [t_a, t_b].
    ``max_alpha`` is the largest optimal-basis alpha and ``work`` the solver
    work of the loop integration.
    """

    delta_lambda_g: float
    delta_lambda_e: float
    delta_lambda_g_mod: float
    delta_lambda_e_mod: float
    quadrature_error: Optional[float]
    loop_gap: float
    max_alpha: float
    work: SolverWork


def _wrap(x: float) -> float:
    """Map to (-pi, pi]."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0:
        y += 2.0 * math.pi
    return y - math.pi


def _zero_generator(t, state, frame):
    return 0.0, 0j


def berry_phase(path, solver: Optional[SolverConfig] = None) -> BerryPhases:
    """Berry phases of both branches over the closed loop [t_a, t_b] of a path.

    The loop starts where the path does, t_a = path.t_start, and ends at
    t_b = t_a + path.duration. The increments are those of the optimal
    phase, lambda = - integral of the w diagonals, in the anchored gauge,
    which is single valued around the loop. The zero generator is integrated
    from DensityState(1) with ``track_phases``, so the state stays put and
    the stepper accumulates the phases with each step's own weights.
    ``solver`` sets the method, tolerances and step cap; its window is
    replaced by the loop's and its ``record_stride`` ignored (default:
    "rk45_adaptive" with its default tolerances). The phases stay out of the
    error norm, so the steps grow to the step cap: exact for a cone, whose w
    diagonals are constant along the loop; a loop whose diagonals vary needs a
    ``dt_max`` that resolves them, and ``quadrature_error`` shows whether it
    does. The sign follows this package's branch convention; the opposite
    convention negates both values. A loop whose end is farther than
    1e-10 * max(1, |b(t_a)|) from its start raises LoopNotClosed; the
    errors of :func:`frame_at` and :func:`integrate` pass through, among them
    NonFiniteState for a phase or alpha beyond the float range.
    """
    t0 = path.t_start
    t1 = t0 + path.duration
    b0 = path.fields(t0)[0]
    gap = math.dist(path.fields(t1)[0], b0)
    tol = _LOOP_TOL * max(1.0, math.hypot(*b0))
    if gap > tol:
        raise LoopNotClosed(f"|b(t_b) - b(t_a)| = {gap:.3e} > {tol:.3g}")
    # only the end of the loop is read, so only t0 and t1 are recorded
    if solver is None:
        cfg = SolverConfig(method="rk45_adaptive", t0=t0, t1=t1, record_stride=sys.maxsize)
    else:
        cfg = dataclasses.replace(solver, t0=t0, t1=t1, record_stride=sys.maxsize)
    traj = integrate(_zero_generator, DensityState(1.0), cfg,
                     frame_provider=lambda t: frame_at(path, t), track_phases=True)
    dg, de = traj.final.lambda_g, traj.final.lambda_e
    return BerryPhases(dg, de, _wrap(dg), _wrap(de), traj.phase_quadrature_error, gap,
                       traj.max_alpha, traj.work)
