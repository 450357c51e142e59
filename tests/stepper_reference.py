"""Second steppers: plain loops written from ``integrate``'s documented controller.

``qsteer.integrate`` runs each tableau through one compiled attempt, code
generated from the tableau's rows, and keeps its per-attempt bookkeeping
(error norm, step update, acceptance checks and both optimal-phase sums)
inline. :func:`integrate_dp5` does the same job for "rk45_adaptive" the plain
way: the Dormand-Prince 5(4) tableau written out, the error norm and the
phase quadrature as the functions :func:`error_norm` and
:func:`advance_phases`, and ``min``, ``max`` and ``abs`` where the controller
names them. :func:`integrate_rk4` does it for "rk4_fixed", with the classical
weights written out. The tests check that each gives ``integrate``'s
trajectory bit for bit.

Both carry the state as the three floats (rho_gg, Re rho_ge, Im rho_ge) and
call the generator as ``rhs(g, r, i, frame)``, as ``integrate`` does.

The controller: the first step is min(dt_max, span/100), dt_max defaults to
span/10, and each attempt takes min(dt * grow, dt_max, t1 - t). The error
norm is the RMS of the scaled errors of rho_gg, Re rho_ge and Im rho_ge, each
scaled by atol + rtol max(|y|, |y_new|); a square that overflows gives an
infinite norm. The step factor is 0.9 norm^(-1/5) (5 at a zero norm),
clamped to [0.2, 5]. An attempt with norm <= 1 is accepted. The fixed step
takes max(1, round(span/dt)) equal steps, step i ending at t0 + i * step.
"""

from __future__ import annotations

import math

from qsteer.control import hs_norm
from qsteer.dynamics import (_MAX_REJECTIONS, DensityState, SolverWork, Trajectory,
                             TrajectorySample, phase_factor)
from qsteer.errors import NonFiniteState, StepRejectionLimit

# Dormand-Prince 5(4): nodes, rows of A (the last is the 5th-order b row, at
# c = 1) and the embedded 4th-order weights
C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
E = tuple(b - b4 for b, b4 in zip(A[-1] + (0.0,), B4))  # b5 - b4
# the classical fourth-order weights
RK4_B = (1 / 6, 1 / 3, 1 / 3, 1 / 6)


def weighted(y, ks, row, dt):
    """y + dt * sum of row[j] * ks[j], term by term in stage order, skipping zero weights."""
    g, r, i = y
    for a, (kg, kr, ki) in zip(row, ks):
        if a != 0.0:
            adt = a * dt
            g += adt * kg
            r += adt * kr
            i += adt * ki
    return g, r, i


def error_norm(y, y_new, err, atol, rtol):
    """RMS of the scaled errors of rho_gg, Re rho_ge and Im rho_ge, in that order.

    A scaled error whose square overflows, as at tolerances near 1e-300, gives
    an infinite norm: a rejection.
    """
    (g, r, i), (g_new, r_new, i_new), (err_g, err_r, err_i) = y, y_new, err
    try:
        return math.sqrt((
            (err_g / (atol + rtol * max(abs(g), abs(g_new)))) ** 2
            + (err_r / (atol + rtol * max(abs(r), abs(r_new)))) ** 2
            + (err_i / (atol + rtol * max(abs(i), abs(i_new)))) ** 2
        ) / 3)
    except OverflowError:
        return math.inf


def advance_phases(lam, frames, row, dt):
    """One step of d lambda_g/dt = -w_gg, d lambda_e/dt = -w_ee with the weights ``row``."""
    sum_g = sum_e = 0.0
    for b, f in zip(row, frames):
        if b != 0.0:
            sum_g += b * f.w_gg
            sum_e += b * f.w_ee
    return lam[0] - dt * sum_g, lam[1] - dt * sum_e


def recorder(traj, track_phases):
    """``accept(t, g, r, i, frame, lam, keep)``, checking one accepted point as integrate does.

    It folds the point into ``traj``'s maxima and, if ``keep``, appends its
    sample; the returned dict holds the worst purity excess and its time.
    """
    worst = {"violation": 0.0, "t": None}

    def accept(t, g, r, i, frame, lam, keep):
        if not (math.isfinite(g) and math.isfinite(r) and math.isfinite(i)):
            raise NonFiniteState(f"non-finite state at t = {t:g}")
        p = g * g + (1.0 - g) * (1.0 - g) + 2.0 * (r * r + i * i)
        if p - 1.0 > worst["violation"]:
            worst["violation"], worst["t"] = p - 1.0, t
        traj.max_excited_population = max(traj.max_excited_population, 1.0 - g)
        omega01 = frame.omega01
        alpha = hs_norm(0.0, 0.0, frame.w_ge) / omega01 if track_phases else frame.alpha
        if not alpha < math.inf:
            raise NonFiniteState(f"the local adiabatic parameter alpha overflows at t = {t:g}")
        traj.max_alpha = max(traj.max_alpha, alpha)
        if keep:
            ge = complex(r, i)
            if track_phases:
                if not math.isfinite(lam[1] - lam[0]):
                    raise NonFiniteState(f"the optimal phase overflows the float range at t = {t:g}")
                ge = ge * phase_factor(*lam)
            traj.samples.append(TrajectorySample(t, DensityState(g, ge), alpha, omega01,
                                                 lam[0], lam[1], p))

    return accept, worst


def integrate_dp5(rhs, initial, cfg, frame_provider, track_phases=False) -> Trajectory:
    """``integrate(rhs, initial, cfg, frame_provider, track_phases)`` for "rk45_adaptive"."""
    assert cfg.method == "rk45_adaptive"
    traj = Trajectory()
    accept, worst = recorder(traj, track_phases)
    t, span = cfg.t0, cfg.t1 - cfg.t0
    ge = complex(initial.rho_ge)
    y = (initial.rho_gg, ge.real, ge.imag)
    lam = lam_err = (0.0, 0.0)
    frames = [frame_provider(t)]
    ks = [rhs(*y, frames[0])]
    n_rhs = n_frames = 1
    accept(t, *y, frames[0], lam, True)

    dt_max = cfg.dt_max if cfg.dt_max is not None else span / 10
    dt, grow = min(dt_max, span / 100), 1.0
    dt_lo, dt_hi = math.inf, 0.0
    accepted = rejected = rejections = 0
    while t < cfg.t1 - 1e-14 * span:
        dt = min(dt * grow, dt_max, cfg.t1 - t)
        if t + dt == t:
            raise StepRejectionLimit(f"step {dt:g} does not advance t = {t:g}")
        frames, ks = frames[:1], ks[:1]
        for s in range(1, 7):
            if C[s] == C[s - 1]:
                frames.append(frames[-1])
            else:
                frames.append(frame_provider(t + C[s] * dt))
                n_frames += 1
            stage = weighted(y, ks, A[s], dt)
            ks.append(rhs(*stage, frames[s]))
        n_rhs += 6
        y_new = stage  # the last stage's state, at c = 1, is the 5th-order solution
        norm = error_norm(y, y_new, weighted((0.0, 0.0, 0.0), ks, E, dt), cfg.atol, cfg.rtol)
        factor = 0.9 * norm ** -0.2 if norm > 0 else 5.0
        grow = min(5.0, max(0.2, factor))
        if norm <= 1.0:
            if track_phases:
                lam = advance_phases(lam, frames, A[-1], dt)
                lam_err = advance_phases(lam_err, frames, E, dt)
            accepted += 1
            t += dt
            y, rejections = y_new, 0
            dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)
            frames, ks = frames[-1:], ks[-1:]
            done = not t < cfg.t1 - 1e-14 * span
            accept(t, *y, frames[0], lam, accepted % cfg.record_stride == 0 or done)
        elif math.isnan(norm):
            raise NonFiniteState(f"non-finite error estimate at t = {t:g}")
        else:
            rejected += 1
            rejections += 1
            if rejections > _MAX_REJECTIONS:
                raise StepRejectionLimit(f"{rejections} consecutive rejections at t = {t:g}")

    traj.max_positivity_violation = worst["violation"]
    if track_phases:
        traj.phase_quadrature_error = max(abs(lam_err[0]), abs(lam_err[1]))
    traj.work = SolverWork(accepted, rejected, n_rhs, n_frames, dt_lo, dt_hi, worst["t"])
    return traj


def integrate_rk4(rhs, initial, cfg, frame_provider, track_phases=False) -> Trajectory:
    """``integrate(rhs, initial, cfg, frame_provider, track_phases)`` for "rk4_fixed".

    Each step evaluates k1 at t + dt/2 from k0, k2 there from k1, k3 at t + dt
    from k2, and the solution with the weights RK4_B; the generator at the
    solution, at t + dt with the frame of k3, is the next step's k0.
    """
    assert cfg.method == "rk4_fixed"
    traj = Trajectory()
    accept, worst = recorder(traj, track_phases)
    t0, span = cfg.t0, cfg.t1 - cfg.t0
    n = max(1, round(span / cfg.dt))
    dt = span / n
    t = t0
    ge = complex(initial.rho_ge)
    y = (initial.rho_gg, ge.real, ge.imag)
    lam = (0.0, 0.0)
    f0 = frame_provider(t)
    k0 = rhs(*y, f0)
    accept(t, *y, f0, lam, True)
    for i in range(1, n + 1):
        t_half, t_end = t + 0.5 * dt, t + 1.0 * dt
        f_half = frame_provider(t_half)
        k1 = rhs(*weighted(y, [k0], (0.5,), dt), f_half)
        k2 = rhs(*weighted(y, [k0, k1], (0.0, 0.5), dt), f_half)
        f_end = frame_provider(t_end)
        k3 = rhs(*weighted(y, [k0, k1, k2], (0.0, 0.0, 1.0), dt), f_end)
        y = weighted(y, [k0, k1, k2, k3], RK4_B, dt)
        k0 = rhs(*y, f_end)
        if track_phases:
            lam = advance_phases(lam, [f0, f_half, f_half, f_end], RK4_B, dt)
        f0 = f_end
        t = t0 + i * dt
        accept(t, *y, f0, lam, i % cfg.record_stride == 0 or i == n)

    traj.max_positivity_violation = worst["violation"]
    traj.work = SolverWork(n, 0, 4 * n + 1, 2 * n + 1, dt, dt, worst["t"])
    return traj
