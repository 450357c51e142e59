"""Correctness checks of one member's outputs against independent references.

Runs outside every timed region. Final states are compared with scipy's
DOP853 at rtol 1e-12 / atol 1e-14 driven through the library's public
``frame_at``, ``rates`` and ``rhs_*`` functions, so the check covers the
program's stepper, orchestration and CSV output, not the generator algebra.
Optimal-phase runs live in a rotated gauge: only the gauge-invariant
rho_gg and |rho_ge| are compared. Berry phases are checked against the
solid-angle formula.
"""

from __future__ import annotations

import math

import qsteer as q

# 100 x the scenarios' rtol; the adaptive stepper lands near 2e-10 today
FINAL_TOL = 1e-7
BERRY_TOL = 1e-9
REF_RTOL = 1e-12
REF_ATOL = 1e-14

TRAJECTORY_HEADER = "t,rho_gg,re_rho_ge,im_rho_ge,purity,alpha,omega01,lambda_g,lambda_e"
COMPARE_HEADER = "variant,final_rho_gg,max_excited_population,max_positivity_violation"
SWEEP_HEADER = "period_time,final_rho_gg,max_excited_population,max_positivity_violation,file"
BERRY_HEADER = (
    "theta_rad,delta_lambda_g,delta_lambda_e,delta_lambda_g_mod_2pi,delta_lambda_e_mod_2pi"
)


class CheckFailed(Exception):
    pass


def _path(params, period=None):
    if params["kind"] == "linear_sweep":
        return q.linear_sweep(params["slope"], params["gap"], params["duration"],
                              params["coupling"])
    period = params["period"] if period is None else period
    return q.rotating_cone(1.0, params["theta"], 2 * math.pi / period, params["coupling"],
                           duration=period)


def _bath(cfg):
    if cfg["model"] == "zero_temperature_ohmic":
        return q.zero_temperature_ohmic(cfg["eta_coupling"], cfg["cutoff_energy"])
    return q.ohmic_thermal(cfg["eta_coupling"], cfg["temperature_energy"], cfg["cutoff_energy"])


def reference_final(params, variant="full", period=None):
    """(rho_gg, rho_ge) at the end of the run, from a tight DOP853 solve."""
    from scipy.integrate import solve_ivp  # lazy: keeps scipy out of the timed RSS peak

    path = _path(params, period)
    sd = _bath(params["bath"])
    if variant == "full":
        def gen(t, state):
            return q.rhs_full(state, q.frame_at(path, t), sd)
    elif variant == "secular":
        def gen(t, state):
            f = q.frame_at(path, t)
            return q.rhs_secular(state, q.rates(f.m1, f.m2, f.omega01, sd), f.omega01)
    else:
        f0 = q.frame_at(path, 0.0)
        r0 = q.rates(f0.m1, f0.m2, f0.omega01, sd)

        def gen(t, state):
            return q.rhs_nonsteered(state, r0, f0.omega01)

    def f(t, y):
        dgg, dge = gen(t, q.DensityState(y[0], complex(y[1], y[2])))
        dge = complex(dge)
        return [dgg, dge.real, dge.imag]

    ge0 = complex(params["rho_ge"])
    sol = solve_ivp(f, (0.0, path.duration), [params["rho_gg"], ge0.real, ge0.imag],
                    method="DOP853", rtol=REF_RTOL, atol=REF_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    y = sol.y[:, -1]
    return float(y[0]), complex(y[1], y[2])


def _rows(files, name, header):
    if name not in files:
        raise CheckFailed(f"missing artifact {name}")
    lines = files[name].splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{name}: unexpected header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _trajectory_final(files, name, t1):
    rows = _rows(files, name, TRAJECTORY_HEADER)
    if len(rows) < 2:
        raise CheckFailed(f"{name}: {len(rows)} rows")
    times = [float(r[0]) for r in rows]
    if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise CheckFailed(f"{name}: times do not start at 0 and increase")
    if abs(times[-1] - t1) > 1e-9 * t1:
        raise CheckFailed(f"{name}: last time {times[-1]!r} != {t1!r}")
    last = rows[-1]
    return float(last[1]), complex(float(last[2]), float(last[3]))


def _state_error(got, ref, gauge_invariant=False):
    (gg, ge), (gg_ref, ge_ref) = got, ref
    coh = abs(abs(ge) - abs(ge_ref)) if gauge_invariant else abs(ge - ge_ref)
    return max(abs(gg - gg_ref), coh)


def check(params, files) -> float:
    """Check one member's CSV texts; returns its final-state error (0 for berry).

    ``files`` maps artifact names to their text. Raises CheckFailed on a
    missing artifact, a malformed CSV or an error above the tolerance.
    """
    mode = params["mode"]
    errors = []
    if mode == "simulate":
        t1 = _path(params).duration
        got = _trajectory_final(files, "trajectory.csv", t1)
        errors.append(_state_error(got, reference_final(params), params["optimal_phase"]))
    elif mode == "compare":
        t1 = _path(params).duration
        rows = _rows(files, "summary.csv", COMPARE_HEADER)
        variants = ("full", "secular", "nonsteered")
        if [r[0] for r in rows] != list(variants):
            raise CheckFailed(f"summary.csv: variants {[r[0] for r in rows]}")
        for variant, row in zip(variants, rows):
            got = _trajectory_final(files, f"{variant}.csv", t1)
            if float(row[1]) != got[0]:
                raise CheckFailed(f"summary.csv: {variant} final_rho_gg disagrees with its CSV")
            errors.append(_state_error(got, reference_final(params, variant)))
    elif mode == "sweep":
        rows = _rows(files, "summary.csv", SWEEP_HEADER)
        if len(rows) != len(params["periods"]):
            raise CheckFailed(f"summary.csv: {len(rows)} rows for {len(params['periods'])} periods")
        for row, period in zip(rows, params["periods"]):
            if abs(float(row[0]) - period) > 1e-12 * period:
                raise CheckFailed(f"summary.csv: period {row[0]} != {period!r}")
            got = _trajectory_final(files, row[4], period)
            if float(row[1]) != got[0]:
                raise CheckFailed(f"summary.csv: final_rho_gg disagrees with {row[4]}")
            errors.append(_state_error(got, reference_final(params, period=period)))
    elif mode == "berry":
        rows = _rows(files, "berry.csv", BERRY_HEADER)
        if [float(r[0]) for r in rows] != params["thetas"]:
            raise CheckFailed("berry.csv: theta column differs from the grid")
        for row in rows:
            target = math.pi * (1.0 - math.cos(float(row[0])))
            err = max(abs(math.remainder(float(row[3]) - target, 2 * math.pi)),
                      abs(math.remainder(float(row[4]) + target, 2 * math.pi)))
            if not err <= BERRY_TOL:
                raise CheckFailed(f"berry.csv: theta {row[0]} phase error {err:.3e}")
        return 0.0
    worst = max(errors)
    if not worst <= FINAL_TOL:
        raise CheckFailed(f"final-state error {worst:.3e} > {FINAL_TOL:.0e}")
    return worst
