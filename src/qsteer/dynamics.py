"""Master-equation right-hand sides and time integration.

The reduced state is stored as (rho_gg, rho_ge): trace one and Hermiticity
are structural (rho_ee and rho_eg are derived), so the only monitored
invariant is positivity. The stepper carries it as three floats (rho_gg,
Re rho_ge, Im rho_ge) and calls its generator on them; :func:`from_pair`
adapts a generator written on the pair. Weak-coupling (Redfield-class)
generators may transiently push the purity above one; that is reported,
never clamped, because clamping would hide violations of the weak-coupling
assumption.

Three generators are provided: the non-steered nonsecular equation, its
secular truncation (comparison baseline) and the full linear-order equation
for steered frames. Each takes and returns the pair; the full equation's
arithmetic is one body on the three floats, which ``rhs_full`` wraps. On a
fixed frame a generator is one affine map, which :func:`_frozen_affine` builds.

Multiplying the basis states by e^{i lambda_g(t)}, e^{i lambda_e(t)} shifts
the w diagonals by the phase velocities and turns w_ge, m2 and rho_ge by
:func:`phase_factor`; :func:`phase_shifted_frame` is the one rotation of a
frame into such a basis.

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

from .bath import RateSet, SpectralDensity
from .control import _frame_provider
from .errors import GAP_FLOOR, GapCollapse, LoopNotClosed, NonFiniteState, StepRejectionLimit

TOL_POSITIVITY = 1e-6


class DensityState(NamedTuple):
    """Reduced two-level state; rho_ee = 1 - rho_gg and rho_eg = conj(rho_ge)."""

    rho_gg: float
    rho_ge: complex = 0j


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

    Reads only gamma_ge, gamma_eg and gamma_phi of ``r``: G_ge, G_eg in the
    population sector, the precession plus the decay rate (G_ge + G_eg)/2 +
    G_phi in the coherence sector; cross rates and drive terms are dropped.
    """
    rgg, rge = state
    g_ge, g_eg, g_phi = r.gamma_ge, r.gamma_eg, r.gamma_phi
    dgg = -(g_ge + g_eg) * rgg + g_eg
    dge = (1j * omega01 - (g_ge / 2.0 + g_eg / 2.0 + g_phi)) * rge
    return dgg, dge


def rhs_full(state: DensityState, frame, sd: SpectralDensity):
    """Complete linear-order generator for a steered frame.

    At w = 0 this reduces exactly to :func:`rhs_nonsteered` with the frame's
    rates. The spectrum is sampled at the adiabatic gap, and the gap's sums
    and difference quotients of S come with its samples from
    :meth:`~qsteer.bath.SpectralDensity.at_gap`, computed once per new gap
    (two formula calls) and kept with the samples. The paper's complex
    terms are regrouped in real arithmetic, d rho_ge/dt = p m2 - q i m2
    - (c_w - i e_w) w_ge - (c_r - i e_r) rho_ge with six real weights, and
    its real and imaginary parts are summed as floats into one complex: the
    result agrees with the written-out terms to a few ulps of the largest
    term, not bit for bit. No input is negated, and a cross product of two
    inputs' parts is scaled by a float first, so an int or float rho_ge, m2
    or w_ge gives the floats of its complex equivalent.
    """
    rgg, rge = state
    dgg, dge_r, dge_i = _rhs_full(sd, rgg, rge.real, rge.imag, frame)
    return dgg, complex(dge_r, dge_i)


def _rhs_full(sd: SpectralDensity, rgg, rr, ri, frame):
    """:func:`rhs_full` on the state's three floats: (d rho_gg, d Re rho_ge, d Im rho_ge).

    The spectrum comes first, so ``partial(_rhs_full, sd)`` is the stepper's
    form ``(g, r, i, frame)`` of the generator on ``sd`` with no Python-level
    call between the stepper and this body.
    """
    w01, w_gg, w_ee, wge, m1, m2 = frame
    if not w01 > GAP_FLOOR:
        raise GapCollapse(f"omega01 = {w01:.3e} <= gap floor {GAP_FLOOR:.0e}")
    s_plus, s_minus, s_zero, s_sum, k1, k2x2, k3 = sd.at_gap(w01)
    m2r, m2i = m2.real, m2.imag
    wr, wi = wge.real, wge.imag

    k1x2 = 2.0 * k1
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
    return dgg, dge_r, dge_i


def from_pair(rhs: Callable) -> Callable:
    """The stepper's form ``(g, r, i, frame) -> (dg, dr, di)`` of a pair-form generator.

    ``rhs(state, frame)`` takes the plain pair (rho_gg, rho_ge) and returns
    (d rho_gg, d rho_ge), as :func:`rhs_nonsteered` and :func:`rhs_secular`
    do; the adapter hands it the pair (g, complex(r, i)) and returns the
    derivative's three floats.
    """
    def floats(g, r, i, frame):
        dgg, dge = rhs((g, complex(r, i)), frame)
        return dgg, dge.real, dge.imag

    return floats


# ----------------------------------------------------------------------
# basis phases
# ----------------------------------------------------------------------

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
        fixed = _METHODS[self.method].err is None
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
    """One recorded point, as written to CSV; alpha and omega01 are its frame's."""

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
    provider's, one per distinct stage time: 1 at t0
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


class _Tableau(NamedTuple):
    """One explicit method: nodes c, rows of A, error row b - b_hat and its compiled code.

    The last row of A is the b row, at c = 1 (first same as last), so the
    last stage is evaluated at the step's solution and becomes the next
    step's first. ``err`` is None for a fixed step. ``attempt`` and
    ``phases`` are generated from these rows by :func:`_tableau`.
    """

    nodes: tuple
    rows: tuple
    err: Optional[tuple]
    attempt: Callable
    phases: Callable


def _tableau(nodes, rows, err=None) -> _Tableau:
    """A tableau, its ``attempt``: one step's stages as straight-line code, and its ``phases``.

    ``attempt(rhs, provider, t, dt, g, r, i, k0, f0)`` evaluates stages 1, 2,
    ... of a step from the state (g, r, i) at t, whose slope is k0 and frame
    f0. It returns the last stage's state (the step's solution), the error
    sums dt * sum of e * k over the error row (three 0.0 without one), the
    last stage's slope and the tuple of stage frames. A stage's state is
    (g, r, i) + sum of (a * dt) * k over its row's nonzero entries, each of
    the three summed left to right in stage order from the state, and its
    slope rhs(g_s, r_s, i_s, frame) with the frame provider(t + c * dt); the
    error sums start from 0.0. A stage whose node equals the previous
    stage's reuses its frame, so the provider is called once per distinct
    node: DP5's last two stages and RK4's last two (c = 1), and RK4's middle
    two (c = 1/2).

    ``phases(frames)`` takes an attempt's stage frames and returns the b-row
    sums of the frames' w_gg and w_ee, then the error row's (the constant 0.0
    without one): each sum of c * w over its row's nonzero entries runs left
    to right in stage order from 0.0. The source of both is generated from
    the rows and compiled once, so the coefficients are read only here.
    """
    if not all(math.isfinite(x) for row in (nodes, *rows, err or ()) for x in row):
        raise ValueError("tableau entries must be finite")  # each is written as a float literal
    last = len(nodes) - 1
    src = ["def attempt(rhs, provider, t, dt, g, r, i, k0, f0):", "    kg0, kr0, ki0 = k0"]

    def sums(row, y0):
        """``a_j = coef * dt`` lines for one row; its three sums, left to right from ``y0``."""
        terms = _terms(row)
        src.extend(f"    a{j} = {a!r} * dt" for j, a in terms)
        return tuple(" + ".join([y] + [f"a{j} * k{c}{j}" for j, _ in terms])
                     for c, y in zip("gri", y0))

    frames = ["f0"]
    for s in range(1, last + 1):
        src += [f"    {c}{s} = {y}" for c, y in zip("gri", sums(rows[s], "gri"))]
        if nodes[s] == nodes[s - 1]:
            frames.append(frames[-1])
        else:
            src.append(f"    f{s} = provider(t + {nodes[s]!r} * dt)")
            frames.append(f"f{s}")
        slope = f"k{s}" if s == last else f"kg{s}, kr{s}, ki{s}"
        src.append(f"    {slope} = rhs(g{s}, r{s}, i{s}, {frames[s]})")
    if err and err[last] != 0.0:  # the error row weights the last slope
        src.append(f"    kg{last}, kr{last}, ki{last} = k{last}")
    err_sums = sums(err or (), ("0.0",) * 3)
    src.append(f"    return g{last}, r{last}, i{last}, {', '.join(err_sums)}, k{last}, "
               f"({', '.join(frames)})")
    phase = [" + ".join(["0.0"] + [f"{c!r} * f{j}.{w}" for j, c in _terms(row)])
             for row in (rows[last], err or ()) for w in ("w_gg", "w_ee")]
    src += ["def phases(frames):",
            f"    {', '.join(f'f{s}' for s in range(last + 1))} = frames",
            f"    return {', '.join(phase)}"]
    namespace = {}
    exec(compile("\n".join(src), "<tableau attempt>", "exec"), namespace)
    return _Tableau(tuple(nodes), tuple(rows), None if err is None else tuple(err),
                    namespace["attempt"], namespace["phases"])


_METHODS = {
    "rk4_fixed": _tableau(
        (0.0, 0.5, 0.5, 1.0, 1.0),
        ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
    ),
    # Dormand-Prince 5(4)
    "rk45_adaptive": _tableau(
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
        (  # b5 - b4
            35 / 384 - 5179 / 57600,
            0.0,
            500 / 1113 - 7571 / 16695,
            125 / 192 - 393 / 640,
            -2187 / 6784 + 92097 / 339200,
            11 / 84 - 187 / 2100,
            -1 / 40,
        ),
    ),
}
_MAX_REJECTIONS = 60
_MAX_STEPS = 10**7  # the most steps a SolverConfig window may take


def integrate(
    rhs: Callable,
    initial: DensityState,
    cfg: SolverConfig,
    frame_provider: Callable,
    track_phases: bool = False,
) -> Trajectory:
    """Integrate d(state)/dt = rhs(g, r, i, frame) over [cfg.t0, cfg.t1].

    The stepper carries the state as three floats, g = rho_gg, r = Re rho_ge
    and i = Im rho_ge, and ``rhs(g, r, i, frame)`` returns their derivatives
    (dg, dr, di), each stage's slope; :func:`from_pair` gives that form for a
    generator on the pair (rho_gg, rho_ge). ``initial`` and each sample's
    ``state`` are :class:`DensityState`. ``frame_provider`` maps a time to
    the :class:`~qsteer.control.AdiabaticFrame` passed to ``rhs``, its only
    view of time, and read for each sample's alpha and omega01. A stage
    costs one call of each: for a steered path the CLI passes the path's
    frame law bound to the path (``control._frame_provider``) and the full
    member ``partial(_rhs_full, sd)``, so no Python-level call lies between
    the stepper and the law or the generator body. Each
    attempted step is one call of its tableau's compiled attempt (see
    ``_tableau``), straight-line code generated once from the tableau's rows,
    which sums each of a stage state's three floats term by term in stage
    order. Both methods are first same as last: a step's last stage is
    evaluated at its solution and is the next step's first, and its frame is
    also the one recorded there. The provider is called once per distinct stage time: a
    stage whose tableau node equals the previous stage's reuses that stage's
    frame, and every ``rhs`` call gets its stage's frame. "rk45_adaptive"
    evaluates six stages per attempted step, and its last two share t + dt,
    so an attempt makes 6 RHS calls and 5 frame evaluations (6 * attempts + 1
    and 5 * attempts + 1 in all). Its controller: the first step is
    min(dt_max, span / 100), dt_max defaults to span / 10, and each attempt
    takes min(dt * grow, dt_max, t1 - t). The error norm is the RMS of the
    scaled errors of rho_gg, Re rho_ge and Im rho_ge, in that order, each
    scaled by atol + rtol * max(|y|, |y_new|); a scaled error whose square
    overflows gives an infinite norm. An attempt with norm <= 1 is accepted,
    and grow is 0.9 * norm^(-1/5) (5 at a zero norm) clamped to [0.2, 5].
    The norm, the clamp and the step update are written with comparisons,
    not min, max and abs, with the same float operations in the same order.
    "rk4_fixed" takes max(1, round((t1 - t0) / dt)) equal steps, step i
    ending at t0 + i * step; its middle two stages share t + step/2 and its
    last two t + step, so it makes 4 * steps + 1 RHS calls and
    2 * steps + 1 frame evaluations.
    Purity is checked at t0 and at every accepted step, independent of
    ``record_stride``, against 1 + 1e-6; the worst excess is reported on the
    trajectory (with a warning), never corrected. A purity sum there that is
    not finite raises NonFiniteState naming t: a component is not finite, or
    the state is so far out of range that its sum overflows. The trajectory's
    ``max_excited_population`` and ``max_alpha`` range over the same points,
    alpha in the reported basis, computed once per point from the frame's
    fields by :func:`~qsteer.control.hs_norm`'s float operations (its hypot
    fallback included), so it is the frame's ``alpha`` bit for bit, and kept
    by its sample; an infinite alpha raises NonFiniteState naming t.
    ``Trajectory.work`` reports the steps, evaluations and step sizes used.
    A NaN "rk45_adaptive" error estimate raises NonFiniteState (an infinite
    one is a rejection), and a step too small to advance t raises
    StepRejectionLimit.

    With ``track_phases`` the samples are reported in the optimally phase
    shifted basis. The stepper accumulates lambda_g, lambda_e (from 0 at t0,
    d lambda/dt = -w_diag) from the tableau's compiled ``phases``: the b-row
    sums over each accepted step's stage frames. The phases stay out of the
    error norm, so steps and rho_gg equal the plain run's exactly. At each
    record point rho_ge = complex(r, i) is rotated by
    e^{i(lambda_e - lambda_g)}; in that basis the w diagonals vanish, so
    alpha is hs_norm(0, 0, w_ge) / omega01. This is
    the optimal-phase run only for generators covariant under the basis phase,
    as ``rhs_full`` is. A phase that is not finite at a record point raises
    NonFiniteState naming t. "rk45_adaptive" also accumulates the phases with
    its embedded 4th-order weights, the error-row sums that ``phases`` returns;
    ``phase_quadrature_error`` is the larger branch's |5th - 4th-order phase|
    at t1 ("rk4_fixed" has no error row and reports None).
    """
    # One call of the tableau's compiled attempt evaluates a step's stages: each stage's
    # state, its frame (the provider's, or the previous stage's at the same t) and the
    # generator, whose (d rho_gg, d Re rho_ge, d Im rho_ge) is the slope. tuple.__new__
    # builds a sample's DensityState without the NamedTuple's Python-level __new__.
    new = tuple.__new__
    sqrt, inf = math.sqrt, math.inf
    nodes, _, err, attempt, phases = _METHODS[cfg.method]
    last = len(nodes) - 1  # stages per attempt, and RHS calls
    frames_per_attempt = sum(nodes[s] != nodes[s - 1] for s in range(1, len(nodes)))
    atol, rtol, t1 = cfg.atol, cfg.rtol, cfg.t1
    traj = Trajectory()
    t_worst = None
    max_violation, max_excited, max_alpha = 0.0, -math.inf, 0.0
    track_error = track_phases and err is not None

    def accept(t, g, r, i, frame, lam, keep):
        """Check one accepted state, fold it into the run's maxima and, if ``keep``, record it."""
        nonlocal t_worst, max_violation, max_excited, max_alpha
        # Tr rho^2 = rho_gg^2 + rho_ee^2 + 2 |rho_ge|^2
        p = g * g + (1.0 - g) * (1.0 - g) + 2.0 * (r * r + i * i)
        if not p < inf:  # a non-finite component, or a finite one whose sum overflows
            raise NonFiniteState(f"non-finite state at t = {t:g}")
        if p - 1.0 > max_violation:
            max_violation = p - 1.0
            t_worst = t
        if 1.0 - g > max_excited:
            max_excited = 1.0 - g
        # alpha = hs_norm(w_gg, w_ee, w_ge) / omega01 by hs_norm's float operations, inline;
        # the optimal phase zeroes w's diagonals and keeps |w_ge|
        omega01, w_gg, w_ee, w_ge, _, _ = frame
        if track_phases:
            w_gg = w_ee = 0.0
        wr, wi = w_ge.real, w_ge.imag
        norm = sqrt(w_gg * w_gg + w_ee * w_ee + 2.0 * (wr * wr + wi * wi))
        if not norm < inf:  # hypot only where the squares overflow (or NaN)
            norm = math.hypot(w_gg, w_ee, wr, wr, wi, wi)
        alpha = norm / omega01
        if not alpha < inf:
            raise NonFiniteState(f"the local adiabatic parameter alpha overflows at t = {t:g}")
        if alpha > max_alpha:
            max_alpha = alpha
        if keep:
            ge = complex(r, i)
            if track_phases:
                if not math.isfinite(lam[1] - lam[0]):  # finite only if both phases are
                    raise NonFiniteState(f"the optimal phase overflows the float range at t = {t:g}")
                ge = ge * phase_factor(*lam)
            traj.samples.append(TrajectorySample(
                t, new(DensityState, (g, ge)), alpha, omega01, lam[0], lam[1], p))

    ge = complex(initial.rho_ge)
    g, r, i = initial.rho_gg, ge.real, ge.imag
    t = cfg.t0
    lam = lam_err = (0.0, 0.0)
    frame = frame_provider(t)
    k = rhs(g, r, i, frame)
    n_rhs = n_frames = 1
    accept(t, g, r, i, frame, lam, True)

    span = t1 - cfg.t0
    if err is None:
        # step i ends at t0 + i * dt, so the times carry no accumulated rounding
        n_steps, t_end = max(1, round(span / cfg.dt)), math.inf
        dt = span / n_steps
    else:
        n_steps, t_end = None, t1 - 1e-14 * span
        dt_max = cfg.dt_max if cfg.dt_max is not None else span / 10
        dt, grow = min(dt_max, span / 100), 1.0
    dt_lo, dt_hi = math.inf, 0.0
    accepted = rejected = rejections = 0
    done = False
    while not done:
        if err is not None:
            # min(dt * grow, dt_max, t1 - t), by the comparisons min makes
            dt *= grow
            if dt_max < dt:
                dt = dt_max
            if t1 - t < dt:
                dt = t1 - t
            if t + dt == t:
                raise StepRejectionLimit(f"step {dt:g} does not advance t = {t:g}")
        # the last stage state is the step's solution, so (g_new, r_new, i_new) is its result
        g_new, r_new, i_new, err_g, err_r, err_i, k_new, frames = attempt(
            rhs, frame_provider, t, dt, g, r, i, k, frame)
        n_rhs += last
        n_frames += frames_per_attempt
        if err is None:
            norm = 0.0
        else:
            # each component's scale atol + rtol * max(|y|, |y_new|), by the comparisons abs
            # and max make: max keeps |y| unless |y_new| is larger, so a NaN |y| stays
            x, y = (g if g >= 0.0 else -g), (g_new if g_new >= 0.0 else -g_new)
            scale_g = atol + rtol * (y if y > x else x)
            x, y = (r if r >= 0.0 else -r), (r_new if r_new >= 0.0 else -r_new)
            scale_r = atol + rtol * (y if y > x else x)
            x, y = (i if i >= 0.0 else -i), (i_new if i_new >= 0.0 else -i_new)
            scale_i = atol + rtol * (y if y > x else x)
            try:  # a scaled error whose square overflows, as at tolerances near 1e-300, rejects
                norm = sqrt((
                    (err_g / scale_g) ** 2
                    + (err_r / scale_r) ** 2
                    + (err_i / scale_i) ** 2
                ) / 3)
            except OverflowError:
                norm = inf
            factor = 0.9 * norm ** -0.2 if norm > 0 else 5.0
            grow = (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2  # clamp to [0.2, 5]
        if norm <= 1.0:
            if track_phases:
                # d lambda/dt = -w_diag by the step's b row and by its error row
                b_g, b_e, e_g, e_e = phases(frames)
                lam = (lam[0] - dt * b_g, lam[1] - dt * b_e)
                lam_err = (lam_err[0] - dt * e_g, lam_err[1] - dt * e_e)
            accepted += 1
            t = t + dt if n_steps is None else cfg.t0 + accepted * dt
            done = t >= t_end or accepted == n_steps
            g, r, i = g_new, r_new, i_new
            rejections = 0
            if dt < dt_lo:
                dt_lo = dt
            if dt > dt_hi:
                dt_hi = dt
            k, frame = k_new, frames[last]
            accept(t, g, r, i, frame, lam, accepted % cfg.record_stride == 0 or done)
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
        frame_evals=n_frames,
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


def _zero_generator(g, r, i, frame):
    return 0.0, 0.0, 0.0


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
                     frame_provider=_frame_provider(path), track_phases=True)
    dg, de = traj.final.lambda_g, traj.final.lambda_e
    return BerryPhases(dg, de, _wrap(dg), _wrap(de), traj.phase_quadrature_error, gap,
                       traj.max_alpha, traj.work)


def _frozen_affine(rhs: Callable, frame) -> Callable:
    """The constant affine map y' = c0 + M0 y of a stepper-form ``rhs`` on one fixed frame.

    ``rhs`` is probed four times and never again: at the zero state (c0) and at the unit
    states of g, r and i (M0's columns, each that slope minus c0). The map ignores its
    frame and sums each row from c0, then its g, r and i terms, left to right.
    """
    c = cg, cr, ci = rhs(0.0, 0.0, 0.0, frame)
    (gg, rg, ig), (gr, rr, ir), (gi, ri, ii) = (
        [d - c0 for d, c0 in zip(rhs(*unit, frame), c)]
        for unit in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def affine(g, r, i, frame):
        return (cg + gg * g + gr * r + gi * i,
                cr + rg * g + rr * r + ri * i,
                ci + ig * g + ir * r + ii * i)

    return affine
